"""``repro.serve`` — a long-running, overload-safe matching service.

The serving layer composes the robustness substrate (resilient backends,
fault injection, deadline budgets, telemetry) into a request path with a
stated contract: every submitted request ends in a valid matching *with
a quality guarantee for the rung it was served at*, or a typed error —
within its deadline budget, under overload, and across worker crashes.

Entry points:

* :class:`MatchingServer` — in-process server (``submit`` /
  ``submit_async``, ``health``/``ready`` probes, ``drain``).
* :func:`run_soak` — overload/chaos soak harness with contract audit.
* :func:`serve_listen` / :class:`SocketServer` / :class:`ResilientClient`
  — the daemon and its one front: framed unix/TCP transport with a
  retrying, idempotent client
  (``python -m repro serve --listen unix:/tmp/d.sock``).
  :class:`Dispatcher` serves the protocol's ops, which
  :data:`~repro.serve.daemon.OPS` lists once for dispatch, routing and
  journal replay.
* :class:`DurableLog` / :func:`recover_registry` — write-ahead journal,
  checkpoint/restore and the crash-recovery path
  (``serve --listen ADDR --journal DIR`` / ``--recover``).
* :class:`Router` / :class:`TenantQuotas` — N supervised daemons behind
  consistent-hash routing, per-tenant admission quotas, and
  journal-recovery failover (``python -m repro route --daemons 3``);
  the router is the one supervisor.

See ``docs/serving.md`` for the architecture.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.daemon import JOURNAL_POISONED_EXIT, Dispatcher
from repro.serve.journal import DurableLog, JournalScan, scan_journal
from repro.serve.net import ResilientClient, SocketServer, serve_listen
from repro.serve.quota import TenantQuotas
from repro.serve.router import Router, RouterNode
from repro.serve.recovery import RecoveryReport, recover_registry
from repro.serve.server import (
    RUNG_GUARANTEES,
    RUNGS,
    MatchingServer,
    MatchRequest,
    MatchResponse,
    ServerConfig,
    rung_for_pressure,
)
from repro.serve.soak import SoakReport, run_soak

__all__ = [
    "AdmissionQueue",
    "BreakerState",
    "CircuitBreaker",
    "Dispatcher",
    "DurableLog",
    "JOURNAL_POISONED_EXIT",
    "JournalScan",
    "RecoveryReport",
    "ResilientClient",
    "Router",
    "RouterNode",
    "SocketServer",
    "TenantQuotas",
    "recover_registry",
    "scan_journal",
    "serve_listen",
    "MatchRequest",
    "MatchResponse",
    "MatchingServer",
    "RUNGS",
    "RUNG_GUARANTEES",
    "ServerConfig",
    "SoakReport",
    "rung_for_pressure",
    "run_soak",
]
